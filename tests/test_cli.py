"""CLI behavior: outputs, exit codes, error context."""

import argparse
import ast
import errno
import gc
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import signal
import subprocess
import sys
import threading
import time
import typing

import pytest
from conftest import child_env

from toeplitz import cli, spectral
from toeplitz.cli import main


# one argv per output flag, each waiting for its path
OUTPUT_ARGVS = [
    ("gen", "--preset", "grigorchuk", "--length", "10", "--out"),
    ("complexity", "--preset", "grigorchuk", "--max-len", "3", "--csv"),
    ("debruijn", "--preset", "grigorchuk", "-L", "2", "--dot"),
    ("debruijn", "--preset", "grigorchuk", "-L", "2", "--json"),
    ("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1", "--size", "4",
     "--csv"),
]
OUTPUT_IDS = ["out", "csv", "dot", "json", "spectrum-csv"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter, so imports and warnings start clean."""
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=False,
                          env=child_env())


class TestGen:
    def test_prints_prefix(self, capsys):
        code, out, _ = run(capsys, "gen", "--coding", "a:2 | x:2 y:2 z:2",
                           "--length", "8")
        assert code == 0 and out == "axayaxaz\n"

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "w.txt"
        code, _, _ = run(capsys, "gen", "--preset", "grigorchuk",
                         "--length", "4", "--out", str(target))
        assert code == 0 and target.read_text() == "axay\n"

    def test_multichar_names_are_space_separated(self, capsys):
        code, out, _ = run(capsys, "gen", "--coding", "aa:2 | bb:2 cc:2",
                           "--length", "4")
        assert code == 0 and out == "aa bb aa cc\n"


def block(letters: str, periods) -> str:
    """p(k) built directly: p(-1) is empty, p(j) = (p(j-1) a_j)^(n_j-1) p(j-1)."""
    word = ""
    for letter, n in zip(letters, periods):
        word = (word + letter) * (n - 1) + word
    return word


class TestGeneratorTailsWithPreperiod:
    # liuqu's letters are (ab) c (ab)^2 d (ab)^3 c ..., every period 2
    @pytest.mark.parametrize("spec, letters, periods", [
        ("e:3 | @liuqu", "eabcab", [3, 2, 2, 2, 2, 2]),  # |p(5)| = 95
        ("a:3 | @liuqu", "abcab", [6, 2, 2, 2, 2]),      # a:3 a:2 -> a:6
    ], ids=["new-letter", "junction-merge"])
    def test_gen_matches_direct_blocks(self, capsys, spec, letters, periods):
        code, out, _ = run(capsys, "gen", "--coding", spec, "--length", "95")
        assert code == 0 and out == block(letters, periods) + "\n"


class TestPeriods:
    # liuqu's letters start a b c a; periods cycle 3, 2, 3, 2, ...
    @pytest.mark.parametrize("source", [("--preset", "liuqu"),
                                        ("--coding", "| @liuqu")],
                             ids=["preset", "coding"])
    def test_cyclic_periods(self, capsys, source):
        code, out, _ = run(capsys, "gen", *source, "--periods", "3,2",
                           "--length", "24")
        assert code == 0 and out == block("abca", [3, 2, 3, 2])[:24] + "\n"

    @pytest.mark.parametrize("periods", ["1", "x", ""])
    def test_bad_periods_are_usage_errors(self, capsys, periods):
        code, out, err = run(capsys, "gen", "--preset", "liuqu",
                             "--periods", periods, "--length", "24")
        assert code == 2 and out == "" and "--periods" in err


class TestLanguage:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "language", "--preset", "grigorchuk",
                           "-L", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "L": 2, "count": 6,
            "words": ["ax", "ay", "az", "xa", "ya", "za"],
        }

    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "language", "--preset", "grigorchuk",
                           "-L", "1")
        assert code == 0 and out.splitlines() == ["a", "x", "y", "z"]


class TestExitCodes:
    def test_check_mismatch_is_one(self, capsys, monkeypatch):
        import toeplitz.complexity as comp

        real = comp.band_complexity
        monkeypatch.setattr(
            comp, "band_complexity",
            lambda lv, L: real(lv, L) + (1 if L == 3 else 0),
        )
        code, _, err = run(capsys, "complexity", "--preset", "grigorchuk",
                           "--max-len", "4", "--check")
        assert code == 1 and "mismatch at L=3" in err

    def test_palindrome_mismatch_is_one(self, capsys, monkeypatch):
        import toeplitz.debruijn as db

        real = db.band_palindromes
        monkeypatch.setattr(
            db, "band_palindromes",
            lambda lv, L: real(lv, L) + (1 if L == 2 else 0),
        )
        code, out, err = run(capsys, "palindrome", "--preset", "grigorchuk",
                             "--max-len", "3", "--check")
        assert code == 1
        assert out == "L,formula,oracle\n1,4,4\n2,1,0\n3,4,4\n"
        assert err == "mismatch at L=2: formula 1 != oracle 0\n"

    def test_repetitivity_mismatch_is_one(self, capsys, monkeypatch):
        import toeplitz.repetitivity as rep

        real = rep._band_value  # what `report` reads for the formula column
        monkeypatch.setattr(
            rep, "_band_value",
            lambda band, L: real(band, L) + (1 if L == 4 else 0),
        )
        code, out, err = run(capsys, "repetitivity", "--preset", "grigorchuk",
                             "--max-len", "4", "--alpha", "1")
        assert code == 1
        table, verdict = out.split("{", 1)
        assert table.splitlines()[4] == "4,34,33"
        assert json.loads("{" + verdict)["verdict"] == "satisfied"
        assert err == "mismatch at L=4: formula 34 != oracle 33\n"

    def test_usage_error_is_two(self, capsys):
        code, _, err = run(capsys, "complexity", "--coding", "a:2 | x:2 y:2",
                           "--preset", "grigorchuk", "--max-len", "2")
        assert code == 2 and "--coding/--preset" in err

    def test_bad_spec_names_flag(self, capsys):
        code, _, err = run(capsys, "gen", "--coding", "a=2 | x:2", "--length", "2")
        assert code == 2 and "--coding" in err

    @pytest.mark.parametrize("flag, value", [
        ("--preset", "grigorchuk(5)"),
        ("--preset", "l-grigorchuk(x)"),
        ("--coding", "| @liuqu(x)"),
        ("--preset", "liuqu(-1)"),
        ("--coding", "| @liuqu(-1)"),
        ("--preset", "liuqu(3,4)"),
        ("--coding", "| @liuqu(3,4)"),
        ("--coding", "a:2 x:2 y:2"),
        ("--coding", "a:2 | x:2 | y:2"),
        ("--coding", "| @nope"),
        ("--coding", "a:2 |"),
        ("--coding", "| @2liuqu"),
        ("--preset", "grig orchuk"),
    ], ids=["grigorchuk-arg", "l-grigorchuk-letter", "generator-letter",
            "liuqu-negative", "generator-negative", "liuqu-two-args",
            "generator-two-args", "no-bar", "two-bars", "unknown-generator",
            "empty-tail", "malformed-generator", "malformed-preset"])
    def test_bad_reference_names_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "gen", flag, value, "--length", "1")
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("argv, message", [
        (("gen", "--preset", "grigorchuk", "--length", "4096", "--budget", "64"),
         "budget"),
        (("repetitivity", "--preset", "grigorchuk", "--max-len", "40",
          "--budget", "100"),
         "the level-4 host word of 127 symbols exceeds the budget of 100 "
         "symbols"),
        (("spectrum", "--preset", "grigorchuk", "--size", "64",
          "--budget", "1000"),
         "a 64 x 64 finite section exceeds the budget of 1000 matrix entries"),
        (("spectrum", "--preset", "grigorchuk", "--energies", "0:1:101",
          "--lyapunov", "8", "--budget", "100"),
         "--energies: a grid of 101 energies exceeds the budget of 100"),
        (("complexity", "--preset", "grigorchuk", "--check", "--max-len", "40",
          "--budget", "100"),
         "the suffix automaton needs up to 762 states, which exceeds the "
         "budget of 100"),
        (("palindrome", "--preset", "grigorchuk", "--check", "--max-len", "40",
          "--budget", "100"),
         "the eertree needs up to 383 states, which exceeds the budget of 100"),
        (("language", "--preset", "grigorchuk", "-L", "8000"),
         "the length-8000 factor set exceeds the budget of 16777216 symbols"),
        (("debruijn", "--preset", "grigorchuk", "-L", "4000"),
         "the length-4001 factor set exceeds the budget of 16777216 symbols"),
    ], ids=["gen", "repetitivity", "spectrum", "energies", "complexity",
            "palindrome", "language", "debruijn"])
    def test_budget_error_is_three(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 3 and message in err.lower()

    def test_horizon_error_is_three(self, capsys):
        code, _, err = run(capsys, "repetitivity", "--coding", "| @liuqu(16)",
                           "--max-len", "64")
        assert code == 3 and "horizon" in err.lower()

    @pytest.mark.parametrize("argv", [
        ("bosh", "--preset", "liuqu", "--horizon", "30"),
        ("repetitivity", "--preset", "liuqu", "--alpha", "1",
         "--horizon", "30"),
    ], ids=["bosh", "repetitivity-alpha"])
    def test_verdict_horizon_past_the_jumps_is_three(self, capsys, argv):
        # liuqu's 512 materialized entries hold 19 kappa jumps
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "horizon 30 exceeds the 19 kappa jumps" in err
        assert "512 materialized entries" in err

    @pytest.mark.parametrize("command, rest", [
        ("bosh", ()),
        ("repetitivity", ("--alpha", "1")),
    ], ids=["bosh", "repetitivity-alpha"])
    def test_horizon_is_charged_to_the_budget(self, capsys, command, rest):
        code, out, err = run(capsys, command, "--preset", "grigorchuk", *rest,
                             "--horizon", "100000", "--budget", "1000")
        assert code == 3 and out == ""
        assert err == (f"toeplitz {command}: --horizon: a horizon of 100000 "
                       "kappa jumps exceeds the budget of 1000\n")

    def test_huge_horizon_exits_before_the_walk(self, capsys):
        def walking(*_):
            raise TimeoutError("the walk to --horizon 10**21 started")

        # the alarm ends a walk that the budget failed to stop
        previous = signal.signal(signal.SIGALRM, walking)
        signal.alarm(2)
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "bosh", "--coding",
                                 "a:2 | b:3 c:4 d:2 e:5",
                                 "--horizon", str(10**21))
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1
        assert code == 3 and out == "" and "--horizon" in err

    @pytest.mark.parametrize("argv, over", [
        (("bosh", "--preset", "l-grigorchuk(14284)"), False),
        (("bosh", "--preset", "l-grigorchuk(14285)"), True),
        (("repetitivity", "--preset", "l-grigorchuk(7142)", "--alpha", "1"),
         False),
        (("repetitivity", "--preset", "l-grigorchuk(7143)", "--alpha", "1"),
         True),
    ], ids=["bosh-4300-digits", "bosh-4301-digits", "alpha-4300-digits",
            "alpha-4301-digits"])
    def test_witness_past_the_digit_limit_is_three(self, capsys, argv, over):
        # witnesses 2**14284 and 2**14285 (bosh), 2**14284 and 2**14286
        # (alpha): 4300 digits prints, 4301 passes the default limit
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(previous)
        if over:
            assert (code, out) == (3, "")
            assert err == (f"toeplitz {argv[0]}: a witness has more than 4300 "
                           "digits, the interpreter's limit for printing an "
                           "integer\n")
        else:
            assert (code, err) == (0, "")
            assert max(json.loads(out)["witness"]) == 2 ** 14284

    def test_zero_jobs_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "--preset", "grigorchuk",
                             "--length", "4", "--jobs", "0")
        assert code == 2 and out == "" and "--jobs" in err

    def test_zero_lyapunov_steps_is_usage_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--preset", "grigorchuk",
                             "--energies", "0:1:2", "--lyapunov", "0")
        assert code == 2 and out == "" and "n >= 1" in err

    @pytest.mark.parametrize("flag, value", [
        ("--energies", "0:1:0"), ("--energies", "0:1:-4"),
        ("--energies", "nan:1:3"), ("--energies", "0:inf:3"),
        ("--q", "a=nan"), ("--p", "const=inf"),
        ("--q", "w=1"), ("--p", "w=2"), ("--q", "a=foo"), ("--q", "a"),
        ("--energies", "0:1"), ("--energies", "-1e308:1e308:3"),
    ])
    def test_bad_spectrum_numbers_are_usage_errors(self, capsys, flag, value):
        argv = {"--energies": "0:1:2", "--q": "const=0", "--p": "const=1"}
        argv[flag] = value
        code, out, err = run(capsys, "spectrum", "--preset", "grigorchuk",
                             "--lyapunov", "8",
                             *(f"{k}={v}" for k, v in argv.items()))
        assert code == 2 and out == "" and f"{flag}:" in err

    @pytest.mark.parametrize("argv", OUTPUT_ARGVS, ids=OUTPUT_IDS)
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, argv,
                                              target):
        path = str(tmp_path / "missing" / "x" if target == "missing-dir"
                   else tmp_path)
        code, out, err = run(capsys, *argv, path)
        assert code == 2 and out == ""
        assert "Traceback" not in err and path in err

    def test_rejected_size_prints_only_the_error(self):
        proc = run_fresh(
            "import sys; from toeplitz.cli import main; sys.exit(main(sys.argv[1:]))",
            "spectrum", "--preset", "grigorchuk", "--size", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "toeplitz spectrum: finite sections need size >= 2"]

    @pytest.mark.parametrize("argv, flag", [
        (("repetitivity", "--preset", "grigorchuk", "--alpha", "1/0"),
         "--alpha:"),
        (("spectrum", "--preset", "grigorchuk", "--energies", "1e12:1e12:1",
          "--lyapunov", "100"),
         "--energies:"),
        (("spectrum", "--preset", "grigorchuk", "--energies", "1e15:1e15:1",
          "--lyapunov", "100"),
         "--energies:"),
        (("spectrum", "--preset", "grigorchuk", "--energies", "0:1:2",
          "--lyapunov", "100", "--p", "x=1e-300,a=1e300"),
         "--p/--q"),  # no smaller energy helps, so the advice names them
        (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
          "--energies=-1e4:1e4:11", "--lyapunov", "20"),
         "--energies:"),
    ], ids=["alpha-zero-denominator", "cocycle-overflow", "cocycle-nan",
            "coefficient-overflow", "cocycle-inf"])
    def test_arithmetic_errors_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("argv, flag", [
        (("complexity", "--max-len", "-1"), "--max-len:"),
        (("palindrome", "--max-len", "-1"), "--max-len:"),
        (("repetitivity", "--max-len", "-1"), "--max-len:"),
        (("repetitivity", "--alpha", "1", "--horizon", "0"), "--horizon:"),
        (("bosh", "--horizon", "-4"), "--horizon:"),
        (("bosh", "--horizon", "0"), "--horizon:"),
        (("bosh", "--eta", "2", "--prefix", "-5"), "--prefix:"),
        (("bosh", "--eta", "-1", "--prefix", "100"), "--eta:"),
        (("gen", "--length", "4", "--budget", "0"), "--budget:"),
        (("gen", "--length", "4", "--budget", "-1"), "--budget:"),
        (("bosh", "--eta", "2"), "--eta:"),
        (("bosh", "--prefix", "100"), "--prefix:"),
        (("spectrum", "--lyapunov", "100"), "--lyapunov:"),
        (("repetitivity",), "--max-len:"),
        # the pair is checked before a verdict past the generator's horizon
        (("bosh", "--horizon", "400", "--eta", "2"), "--eta:"),
        (("spectrum", "--energies", "0:1:2", "--lyapunov", "64", "--size", "5"),
         "--size:"),
    ], ids=["complexity", "palindrome", "repetitivity", "alpha-horizon",
            "bosh-negative-horizon", "bosh-zero-horizon", "bosh-negative-prefix",
            "bosh-negative-eta", "zero-budget", "negative-budget",
            "bosh-eta-without-prefix", "bosh-prefix-without-eta",
            "spectrum-lyapunov-without-energies", "repetitivity-without-table",
            "bosh-eta-without-prefix-past-horizon", "spectrum-size-with-energies"])
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv, flag):
        command, *rest = argv
        code, out, err = run(capsys, command, "--preset", "liuqu", *rest)
        assert code == 2 and out == "" and flag in err

    def test_short_eta_prefix_is_three(self, capsys):
        code, out, err = run(capsys, "bosh", "--preset", "grigorchuk",
                             "--eta", "2", "--prefix", "5")
        assert code == 3 and out == "" and "got 5" in err

    def test_missing_eta_factor_is_named_by_its_letters(self, capsys):
        code, out, err = run(capsys, "bosh", "--coding", "a:2 | b:50 c:2",
                             "--eta", "1", "--prefix", "20")
        assert code == 3 and out == ""
        assert "factor c never occurs in the first 20 symbols" in err

    def test_unconverged_section_is_usage_error(self, capsys, monkeypatch):
        def unconverged(jobz, n, d, e, z, ldz, work, info, jobz_length):
            info._obj.value = 1

        # the LinAlgError comes from a numpy imported only on this branch
        monkeypatch.setattr(spectral, "_dstev", lambda: unconverged)
        code, out, err = run(capsys, "spectrum", "--preset", "grigorchuk",
                             "--q", "a=0,x=1,y=2,z=3", "--size", "8")
        assert (code, out) == (2, "")
        assert err == ("toeplitz spectrum: dsterf did not converge "
                       "(LAPACK info=1)\n")

    def test_section_without_numpy_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_dstev", lambda: None)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
        code, out, err = run(capsys, "spectrum", "--preset", "grigorchuk",
                             "--q", "a=0,x=1,y=2,z=3", "--size", "8")
        assert (code, out) == (2, "")
        assert err == ("toeplitz spectrum: finite sections need numpy: neither "
                       "its bundled LAPACK dsterf nor numpy was found\n")

    def test_alpha_below_one_names_the_flag(self, capsys):
        code, out, err = run(capsys, "repetitivity", "--preset", "grigorchuk",
                             "--max-len", "4", "--alpha", "1/2")
        assert code == 2 and out == ""
        assert err == ("toeplitz repetitivity: --alpha: alpha-repetitivity is "
                       "defined for alpha >= 1, got '1/2'\n")

    def test_zero_max_len_means_no_repetitivity_table(self, capsys):
        code, out, _ = run(capsys, "repetitivity", "--preset", "grigorchuk",
                           "--max-len", "0", "--alpha", "1")
        assert code == 0 and json.loads(out)["verdict"] == "satisfied"

    def test_generator_merged_away_is_usage_error(self, capsys):
        # the preperiod's a:2 absorbs liuqu(1)'s one entry, also a:2
        assert run(capsys, "gen", "--coding", "a:2 | @liuqu(1)",
                   "--length", "4") == (
            2, "", "toeplitz gen: generator entries merged away entirely\n")

    def test_bosh_has_no_json_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bosh", "--preset", "grigorchuk", "--json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("complexity", "--coding", "| @liuqu(3)", "--max-len", "100"),
        ("palindrome", "--coding", "| @liuqu(3)", "--max-len", "100"),
        ("complexity", "--preset", "grigorchuk", "--max-len", "1000",
         "--check", "--budget", "100"),
        ("palindrome", "--preset", "grigorchuk", "--max-len", "1000",
         "--check", "--budget", "100"),
        ("repetitivity", "--preset", "grigorchuk", "--max-len", "40",
         "--budget", "200"),
        # the horizon ends at L = |p(12)| + 1 = 8192, past the first write
        ("complexity", "--coding", "| @liuqu(13)", "--max-len", "10000"),
        ("palindrome", "--coding", "| @liuqu(13)", "--max-len", "10000"),
    ], ids=["complexity-horizon", "palindrome-horizon", "complexity-budget",
            "palindrome-budget", "repetitivity-budget",
            "complexity-late-horizon", "palindrome-late-horizon"])
    def test_table_that_cannot_finish_prints_no_row(self, capsys, argv):
        # the tables stream, so each must fail before its first row
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"toeplitz {argv[0]}: ")

    # a fault inside a layer, not bad input
    @pytest.mark.parametrize("module, name, crash, argv, last", [
        ("complexity", "profile", lambda *_: [][0],
         ("complexity", "--preset", "grigorchuk", "--max-len", "8"),
         "IndexError: list index out of range"),
        ("spectral", "lyapunov_over_grid", lambda *_: {}["x"],
         ("spectrum", "--preset", "grigorchuk", "--energies", "0:1:2",
          "--lyapunov", "8"),
         "KeyError: 'x'"),
    ], ids=["index-error", "key-error"])
    def test_crash_is_seventy_with_a_traceback(self, capsys, monkeypatch,
                                               module, name, crash, argv,
                                               last):
        monkeypatch.setattr(importlib.import_module(f"toeplitz.{module}"),
                            name, crash)
        code, out, err = run(capsys, *argv)
        assert code == cli.SOFTWARE_ERROR == 70 and out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith(f"\n{last}\n")


def subcommands(parser: argparse.ArgumentParser) -> list:
    """The names of the subparsers that `parser` holds."""
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


COMMANDS = subcommands(cli.build_parser())
# a value for each required option, so that only the argv's fault is left
REQUIRED = {"gen": ("--length", "1"), "language": ("-L", "1"),
            "complexity": ("--max-len", "1"), "palindrome": ("--max-len", "1"),
            "debruijn": ("-L", "1")}


def parser_argvs() -> list:
    """`--help`, no arguments, an unknown subcommand and an option before
    the subcommand; then for each subcommand `-h`, a trailing extra
    argument, a missing required option and a bad integer."""
    argvs = [("--help",), (), ("nope",), ("--budget", "5", "gen")]
    for name in COMMANDS:
        given = (name, *REQUIRED.get(name, ()))
        argvs += [(name, "-h"), (*given, "extra")]
        if name in REQUIRED:
            argvs.append((name,))
        if name != "presets":
            argvs.append((*given, "--budget", "x"))
    return argvs


PARSER_ARGVS = parser_argvs()


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=[" ".join(argv) or "-" for argv in PARSER_ARGVS])
def test_help_and_errors_match_the_full_parser(monkeypatch, capsys, argv):
    """`main` builds one subparser when the argv starts with a subcommand,
    and prints the bytes that the parser with all of them prints."""
    monkeypatch.setenv("COLUMNS", "80")
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser",
                        lambda *a: built.append(build(*a)) or built[-1])

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        return exc.value.code, *capsys.readouterr()

    code, out, err = outcome(main)
    assert (code, out, err) == outcome(build().parse_args)
    one = argv and argv[0] in COMMANDS
    assert subcommands(built[0]) == ([argv[0]] if one else COMMANDS)
    if code == 2 and not one:
        # a missing or unknown subcommand is `command`, its dest
        assert "argument command: " in err or err.endswith(": command\n")


class TestReports:
    def test_complexity_csv_contents(self, tmp_path, capsys):
        target = tmp_path / "c.csv"
        code, _, _ = run(capsys, "complexity", "--preset", "grigorchuk",
                         "--max-len", "4", "--check", "--csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "L,formula,oracle,growth"
        assert lines[1] == "0,1,1,3"
        assert lines[5] == "4,10,10,3"

    def test_palindrome_check(self, capsys):
        code, out, _ = run(capsys, "palindrome", "--preset", "grigorchuk",
                           "--max-len", "6", "--check")
        assert code == 0
        assert out.splitlines()[1] == "1,4,4"

    def test_debruijn_json_and_dot(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        js = tmp_path / "g.json"
        code, _, _ = run(capsys, "debruijn", "--preset", "grigorchuk",
                         "-L", "2", "--dot", str(dot), "--json", str(js))
        assert code == 0
        assert dot.read_text().count("->") == 8
        payload = json.loads(js.read_text())
        assert len(payload["vertices"]) == 6
        assert payload["annotations"]["u1"] == "ax"
        assert payload["annotations"]["v1"] == "xa"

    def test_repetitivity_verdict_json(self, capsys):
        code, out, _ = run(capsys, "repetitivity", "--preset", "grigorchuk",
                           "--alpha", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "satisfied"
        assert payload["kind"] == "exact"
        assert set(payload["kappa_gaps"]) == {3}

    def test_bosh_json_with_eta(self, capsys):
        code, out, _ = run(capsys, "bosh", "--preset", "grigorchuk",
                           "--horizon", "6", "--eta", "1", "--prefix", "2048")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "satisfied"
        assert payload["witness"] == [2] * 6
        assert payload["eta"]["rarest"] == "z"

    def test_spectrum_csv(self, tmp_path, capsys):
        target = tmp_path / "s.csv"
        code, _, _ = run(capsys, "spectrum", "--preset", "grigorchuk",
                         "--q", "a=0,x=1,y=2,z=3", "--size", "8",
                         "--csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "j,eigenvalue" and len(lines) == 9

    def test_spectrum_energy_grid(self, tmp_path, capsys):
        target = tmp_path / "lyap.csv"
        code, _, _ = run(capsys, "spectrum", "--preset", "grigorchuk",
                         "--q", "a=0,x=1,y=2,z=3",
                         "--energies", "6:8:3", "--lyapunov", "256",
                         "--csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "E,lyapunov" and len(lines) == 4
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])

    def test_empty_coefficient_items_are_skipped(self, capsys):
        argv = ("spectrum", "--preset", "grigorchuk", "--size", "8", "--q")
        code, out, err = run(capsys, *argv, "a=0,,x=1,")
        assert code == 0 and out.startswith("j,eigenvalue\n")
        assert (code, out, err) == run(capsys, *argv, "a=0,x=1")

    @pytest.mark.parametrize("argv, first_row", [
        (("--size", "4"), "j,eigenvalue"),
        (("--energies", "0:1:2", "--lyapunov", "8"), "E,lyapunov"),
    ], ids=["size", "energies"])
    def test_degenerate_spectrum_warns_in_one_line(self, argv, first_row):
        proc = run_fresh(
            "import sys; from toeplitz.cli import main; sys.exit(main(sys.argv[1:]))",
            "spectrum", "--preset", "grigorchuk", *argv)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == first_row
        assert proc.stderr == (
            "toeplitz spectrum: warning: all letters map to identical (p, q); "
            "the induced coefficient system is periodic and spectral "
            "conclusions for aperiodic operators do not apply\n")

    def test_presets_listing(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        assert out.splitlines() == ["grigorchuk", "l-grigorchuk(l1,l2,...)",
                                    "liuqu"]


# sha256 of the stdout of runs that read the repetitivity oracle, the kappa
# jumps, the eta estimate, the de Bruijn graphs, the Lyapunov walk and the
# finite sections: their bytes are part of the CLI's contract
STDOUT_DIGESTS = [
    (("repetitivity", "--preset", "grigorchuk", "--max-len", "64",
      "--alpha", "1"),
     "159365c49fbf1c6a072fa27a791f9c03cffb4e970ba969f6a65061ad759ed0b5"),
    (("repetitivity", "--preset", "l-grigorchuk(1,3)", "--max-len", "64",
      "--alpha", "1"),
     "ed150e63ac0a78f2dd986f94c59dfa079b95d99a940554cecfb7757205228cef"),
    (("repetitivity", "--preset", "grigorchuk", "--max-len", "64"),
     "9b76fd8ad1e707494e44e11b4b1a69a11e70a7678d4b9955581fd69f4f0a569f"),
    (("repetitivity", "--preset", "l-grigorchuk(1,3)", "--max-len", "64"),
     "660d70129732dd73d21936c4b605ea4926d998fe3431c3481781c2a7c383d338"),
    (("bosh", "--preset", "grigorchuk", "--eta", "6", "--prefix", "8192"),
     "6788c6c00087705fc43e3c621effc11c086ee787c76e099f955c1b7aa959750d"),
    (("bosh", "--coding", "a:3 | b:2 c:4 d:2", "--eta", "4",
      "--prefix", "4096"),
     "3c41e82a6d6988da6bfeeef0020d8f656dea4f552fce0d37c05808b3a2c954e2"),
    (("bosh", "--preset", "liuqu", "--horizon", "12"),
     "f7d87d27e9f7c9e1d862eeaf2b3e9b05b23b441a3bab678fe93c9a44baaecc99"),
    (("repetitivity", "--preset", "liuqu", "--alpha", "1", "--horizon", "8"),
     "a0941000d616acc94cf6575da575a638e0db751b6e8d5ddba213afb31b223f16"),
    (("bosh", "--coding", "e:2 d:3 c:2 | a:2 b:3"),
     "86cab57cad6b27c1837c57bebc5aeac6216ec532247f28d42f2cdae322b3a983"),
    (("repetitivity", "--coding", "e:2 d:3 c:2 | a:2 b:3", "--alpha", "1",
      "--max-len", "40"),
     "16591ff039310d0aa808b63330db563cf5e71d3a3a6759d6f2fc90fb44b91bef"),
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--energies=-3:6:121", "--lyapunov", "4096"),
     "cd74cfbc3cb8b023739f5da78b51ea314ea58dc9dc7daf9cf443dd15d4063bdc"),
    # the walk's edge cases: one step and no rescaling, a lone block one step
    # short of the first rescaling, and one step past it
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--energies=-3:6:31", "--lyapunov", "1"),
     "f48dd60b9ed1c94ef59e8c535550da5e57e00fd325c716f85f1ddef99fd93191"),
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--energies=-3:6:31", "--lyapunov", "31"),
     "6a18f729669280729a78bbe2080128ac6ef1d682616a1894fd636cfcc1ec6d86"),
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--energies=-3:6:31", "--lyapunov", "33"),
     "d4ac353b7ddbc5afa24c5ca443232eae9645d1df25eeecb4474af3c3d7398e05"),
    # one p for every letter: the walk goes four steps at a time up to its
    # last rescaling and ends in three single steps; the digests are the
    # parent walk's, which multiplied every step by -p1 / p2
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--p", "const=-2", "--energies=-3:6:31", "--lyapunov", "4099"),
     "5615b3a868edce1bc367eb675f8f05dd3225763772190f46bbfb51c730c7ed25"),
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--energies=-3:6:31", "--lyapunov", "35"),
     "52dd0a3370d2c3ae6c07d1855d32165f1ab68827618ae0f8a85b0f45c258a898"),
    # varied p, so the off-diagonal ratio -p1 / p2 is not -1, and n = 2000
    # is no multiple of RENORM_EVERY, so the walk ends in a short block that
    # no rescaling follows
    (("spectrum", "--preset", "l-grigorchuk(1,3)", "--q", "a=0,x=1,y=2,z=3",
      "--p", "a=1,x=2,y=0.5,z=1.5", "--energies=-4:7:61", "--lyapunov", "2000"),
     "1fb2c2da409fe31b097015c8698d8e9ef136f96779aaeb79675466f6de8664e2"),
    # with neither --dot nor --json, the graph's JSON goes to stdout
    (("debruijn", "--preset", "grigorchuk", "-L", "8"),
     "c8d5245596b605f060f9a00cd44deca7fdffe81f9d87590a5b1173887d71c598"),
    # mirror pairs in DOT, each once and at its smaller word: 10, 22 and 14
    # pairs
    (("debruijn", "--preset", "grigorchuk", "-L", "8", "--dot", "-"),
     "39ce393b986a6d582d91743909fa878232a0a1eb0efa523d4dea6d3b0380951a"),
    (("debruijn", "--preset", "l-grigorchuk(1,3)", "-L", "20", "--dot", "-"),
     "5a1eaddd07c6a06bcdb5ab979f3896052bedb545f7f1bfd1433d4f24217d4f8a"),
    (("debruijn", "--coding", "a:3 | b:2 c:4 d:2", "-L", "13", "--dot", "-"),
     "9c95c2f84c3223fb5e46e998af633063fd7b0149b686a5b40e6bbf84d3c09b70"),
    (("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
      "--size", "2048"),
     "a0fecbfe6f3121c7fefe09bb01837ed247869c7ebf51ec271dccb3ebcb33d3ae"),
    (("spectrum", "--preset", "l-grigorchuk(1,2)", "--q", "a=0,x=1,y=2,z=3",
      "--size", "1024"),
     "e3e538a5cb24317be8f5782450a8ebba1eb2ae1e0f10e2e8264d7dea34f30771"),
]


@pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in STDOUT_DIGESTS])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_debruijn_json_on_stdout_is_the_json_file(tmp_path, capsys):
    argv = ("debruijn", "--preset", "grigorchuk", "-L", "8")
    code, out, _ = run(capsys, *argv)
    path = tmp_path / "graph.json"
    assert (code, run(capsys, *argv, "--json", str(path))) == (0, (0, "", ""))
    assert path.read_bytes() == out.encode()


# each command and the modules it may load: the package, `toeplitz.*` and the
# tracked outside modules below
TRACKED = ("numpy", "scipy", "dataclasses", "inspect", "fractions", "ctypes",
           "json")
IMPORTS = {
    "presets": (["presets"], ""),
    "gen": (["gen", "--preset", "grigorchuk", "--length", "16"], "words"),
    "language": (["language", "--preset", "grigorchuk", "-L", "3"],
                 "words language"),
    "complexity": (["complexity", "--preset", "grigorchuk", "--max-len", "8",
                    "--check"], "words language complexity"),
    "palindrome": (["palindrome", "--preset", "grigorchuk", "--max-len", "8",
                    "--check"], "words language debruijn"),
    "debruijn": (["debruijn", "--preset", "grigorchuk", "-L", "3"],
                 "words language debruijn json"),
    "repetitivity": (["repetitivity", "--preset", "grigorchuk", "--alpha", "1"],
                     "verdicts repetitivity fractions json"),
    "repetitivity-max-len": (["repetitivity", "--preset", "grigorchuk",
                              "--max-len", "8"],
                             "words language repetitivity"),
    "bosh": (["bosh", "--preset", "grigorchuk", "--eta", "2", "--prefix", "64"],
             "words language verdicts boshernitzan fractions json"),
    "bosh-no-eta": (["bosh", "--preset", "grigorchuk"],
                    "verdicts boshernitzan json"),
    "spectrum-lyapunov": (["spectrum", "--preset", "grigorchuk",
                           "--energies=-3:6:5", "--lyapunov", "64"],
                          "words spectral"),
    "spectrum-size": (["spectrum", "--preset", "grigorchuk", "--size", "4"],
                      "words spectral ctypes"),
}


def tracked_modules(script: str, *args: str) -> list:
    """Run `script` fresh; the `[exit code, modules]` it leaves, where the
    modules are the package's and the tracked ones loaded when it ends."""
    proc = run_fresh(
        "import runpy, sys\n"
        "code = 0\n"
        "try:\n"
        f"{script}"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(repr([code, sorted(m for m in sys.modules\n"
        f"    if m in {TRACKED!r} or m.split('.')[0] == 'toeplitz')]),\n"
        "    file=sys.stderr)\n",
        *args)
    assert "Traceback" not in proc.stderr, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


class TestImports:
    def test_package_exports_resolve(self):
        import toeplitz

        assert [n for n in toeplitz.__all__ if not hasattr(toeplitz, n)] == []
        namespace: dict = {}
        exec("from toeplitz import *", namespace)
        assert set(toeplitz.__all__) <= namespace.keys()
        assert toeplitz.Coding is toeplitz.coding.Coding
        assert toeplitz.right_extensions is toeplitz.language.right_extensions

    @pytest.mark.parametrize("label", IMPORTS)
    def test_each_command_loads_only_its_modules(self, label):
        argv, own = IMPORTS[label]
        if label == "spectrum-size" and spectral._dstev() is None:
            # the dense fallback, where no `dstev` is bundled, loads numpy
            # and what numpy's own start-up imports (`inspect`, for one)
            own += " " + " ".join(tracked_modules("    import numpy\n")[1])
        code, loaded = tracked_modules(
            "    sys.argv[0] = 'toeplitz'\n"
            "    runpy.run_module('toeplitz', run_name='__main__')\n", *argv)
        assert code == 0, loaded
        base = ["toeplitz", "cli", "errors", "presets", "coding"]
        assert loaded == sorted({
            m if m == "toeplitz" or m in TRACKED else f"toeplitz.{m}"
            for m in [*base, *own.split()]})


def test_annotations_resolve_with_the_type_checking_imports():
    """Each annotation names a type bound at module level, at run time or
    under `if TYPE_CHECKING:`, which static checkers read and the
    interpreter skips."""
    import toeplitz

    unresolved = []
    for info in pkgutil.iter_modules(toeplitz.__path__):
        module = importlib.import_module(f"toeplitz.{info.name}")
        namespace = dict(vars(module))
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == \
                    "TYPE_CHECKING":
                exec(compile(ast.Module(node.body, []), module.__file__,
                             "exec"), namespace)
        for obj in vars(module).values():
            if not (inspect.isclass(obj) or inspect.isfunction(obj)) \
                    or obj.__module__ != module.__name__:
                continue
            methods = vars(obj).values() if inspect.isclass(obj) else ()
            for target in [obj, *filter(inspect.isfunction, methods)]:
                try:
                    typing.get_type_hints(target, globalns=namespace)
                except NameError as exc:
                    unresolved.append(f"{target.__qualname__}: {exc}")
    assert unresolved == []


# one argv per exit status of a launch: output, argparse's usage error and a
# budget error
ENTRY_ARGVS = [
    (0, ("gen", "--preset", "grigorchuk", "--length", "16")),
    (2, ("gen", "--preset", "grigorchuk", "--length", "x")),
    (3, ("bosh", "--preset", "grigorchuk", "--horizon", "100000",
         "--budget", "1000")),
]


def in_process(capsys, argv) -> tuple:
    """`main`'s exit status, stdout and stderr, whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def buffered_env() -> dict:
    """`child_env` with stdout block-buffered, as a pipe is by default, so
    that output not flushed at exit is lost."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestProcessEntry:
    """`python -m toeplitz` freezes the collector at exit; `main` never does."""

    @pytest.mark.parametrize("status, argv", ENTRY_ARGVS,
                             ids=[str(s) for s, _ in ENTRY_ARGVS])
    def test_main_leaves_the_collector_as_found(self, capsys, status, argv):
        before = gc.isenabled(), gc.get_freeze_count()
        assert in_process(capsys, argv)[0] == status
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_atexit_handlers_still_run(self):
        proc = run_fresh(
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'atexit ran')\n"
            "sys.argv[0] = 'toeplitz'\n"
            "runpy.run_module('toeplitz', run_name='__main__')\n",
            "presets")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-2:] == ["liuqu", "atexit ran"]

    @pytest.mark.parametrize("status, argv", ENTRY_ARGVS,
                             ids=[str(s) for s, _ in ENTRY_ARGVS])
    def test_launch_matches_main(self, monkeypatch, capsys, status, argv):
        # argparse wraps its usage to COLUMNS, here and in the child
        monkeypatch.setenv("COLUMNS", "80")
        proc = subprocess.run([sys.executable, "-m", "toeplitz", *argv],
                              capture_output=True, check=False,
                              env=dict(buffered_env(), COLUMNS="80"))
        launched = proc.returncode, proc.stdout, proc.stderr
        assert launched == in_process(capsys, argv)
        assert launched[0] == status

    def test_failed_flush_at_exit_is_120(self):
        # stdout is a pipe whose reader is gone; the text the child writes
        # before `run` waits in the buffer until the interpreter's own flush
        # at exit, which fails after argparse's usage error has exited 2
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys\n"
                 "from toeplitz.__main__ import run\n"
                 "sys.stdout.write('unflushed')\n"
                 "sys.argv = ['toeplitz', 'nope']\n"
                 "run()\n"],
                stdout=writer, stderr=subprocess.PIPE, check=False,
                env=buffered_env())
        finally:
            os.close(writer)
        assert proc.returncode == 120 and b"BrokenPipeError" in proc.stderr


def table_argv(command: str, max_len: int) -> tuple:
    return (command, "--preset", "grigorchuk", "--max-len", str(max_len))


# argparse's help, the full parser's and one subcommand's
HELP_ARGVS = [("--help",), ("complexity", "--help")]
HELP_IDS = ["help", "complexity-help"]


def prefix(argv) -> str:
    """What each stderr line of a launch with `argv` starts with."""
    return "toeplitz" if argv[0].startswith("-") else f"toeplitz {argv[0]}"


class TestStreamedOutput:
    """Each command's lines go out as they are made, a chunk per write."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("command", ["complexity", "palindrome"])
    def test_table_peak_does_not_grow_with_rows(self, command):
        # holding 10**5 rows and their text took about 40 MB
        proc = run_fresh(
            "import runpy, sys\n"
            "sys.argv[0] = 'toeplitz'\n"
            "try:\n"
            "    runpy.run_module('toeplitz', run_name='__main__')\n"
            "finally:\n"
            "    with open('/proc/self/status') as fh:\n"
            "        print(*[l for l in fh if l.startswith('VmHWM:')],\n"
            "              file=sys.stderr, end='')\n",
            *table_argv(command, 10**5))
        assert proc.returncode == 0
        # the header, then L = 0 or 1 up to 10**5
        assert proc.stdout.count("\n") == 10**5 + 1 + (command == "complexity")
        peak_kb = int(proc.stderr.split()[-2])
        assert peak_kb < 25 * 1024

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for argv in [table_argv("complexity", 10**5), *HELP_ARGVS]:
            reader, writer = os.pipe()
            os.close(reader)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "toeplitz", *argv], stdout=writer,
                    stderr=subprocess.PIPE, check=False, env=env)
            finally:
                os.close(writer)
            assert (proc.returncode, proc.stderr) == (
                120, f"{prefix(argv)}: stdout closed\n".encode())

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", HELP_ARGVS + [
        ("presets",), table_argv("complexity", 10**4)],
                             ids=HELP_IDS + ["presets", "table"])
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_full_stdout_ends_in_one_line(self, argv, unbuffered):
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "toeplitz", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  check=False, env=env)
        assert proc.returncode == 120
        assert proc.stderr == (f"{prefix(argv)}: cannot write stdout: "
                               f"{os.strerror(errno.ENOSPC)}\n").encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", OUTPUT_ARGVS, ids=OUTPUT_IDS)
    def test_full_output_path_is_a_usage_error(self, argv):
        proc = subprocess.run([sys.executable, "-m", "toeplitz", *argv,
                               "/dev/full"], capture_output=True, check=False,
                              env=buffered_env())
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == (f"toeplitz {argv[0]}: cannot write /dev/full: "
                               f"{os.strerror(errno.ENOSPC)}\n").encode()

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="needs the resource module")
    def test_host_word_past_the_budget_is_refused_before_it_is_built(self):
        # 200 letters of period 2: the level-20 host word holds 421527551
        # symbols, and the 32767-symbol block alone stayed under the budget
        coding = "|" + "".join(f" l{i}:2" for i in range(200))
        proc = run_fresh(
            "import resource, runpy, sys\n"
            "limit = 300000 * 1024  # ulimit -v 300000\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "sys.argv[0] = 'toeplitz'\n"
            "runpy.run_module('toeplitz', run_name='__main__')\n",
            "language", "--coding", coding, "-L", "2000000")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "toeplitz language: the level-20 host word of 421527551 symbols "
            "exceeds the budget of 16777216 symbols\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_fifo_whose_reader_leaves_is_a_usage_error(self, tmp_path):
        fifo = tmp_path / "f"
        os.mkfifo(fifo)

        def read_ten_bytes():
            with open(fifo, "rb") as reader:
                reader.read(10)

        # the open blocks until the child opens its end
        thread = threading.Thread(target=read_ten_bytes, daemon=True)
        thread.start()
        proc = subprocess.run([sys.executable, "-m", "toeplitz",
                               *table_argv("complexity", 10**5), "--csv",
                               str(fifo)], capture_output=True, check=False,
                              env=buffered_env(), timeout=60)
        thread.join(10)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == (f"toeplitz complexity: cannot write {fifo}: "
                               f"{os.strerror(errno.EPIPE)}\n").encode()
