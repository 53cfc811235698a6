"""CLI behavior: outputs, exit codes, error context."""

import hashlib
import json
import subprocess
import sys

import pytest
from conftest import child_env

from toeplitz.cli import main


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

        real = rep.repetitivity_formula
        monkeypatch.setattr(
            rep, "repetitivity_formula",
            lambda c, L: real(c, L) + (1 if L == 4 else 0),
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
    ], ids=["grigorchuk-arg", "l-grigorchuk-letter", "generator-letter",
            "liuqu-negative", "generator-negative", "liuqu-two-args",
            "generator-two-args"])
    def test_bad_reference_names_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "gen", flag, value, "--length", "1")
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("argv, message", [
        (("gen", "--preset", "grigorchuk", "--length", "4096", "--budget", "64"),
         "budget"),
        (("repetitivity", "--preset", "grigorchuk", "--max-len", "40",
          "--budget", "100"),
         "|p(6)| = 127 exceeds the budget of 100 symbols"),
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
        ("--q", "w=1"), ("--p", "w=2"), ("--q", "a=foo"),
    ])
    def test_bad_spectrum_numbers_are_usage_errors(self, capsys, flag, value):
        argv = {"--energies": "0:1:2", "--q": "const=0", "--p": "const=1"}
        argv[flag] = value
        code, out, err = run(capsys, "spectrum", "--preset", "grigorchuk",
                             "--lyapunov", "8",
                             *(f"{k}={v}" for k, v in argv.items()))
        assert code == 2 and out == "" and f"{flag}:" in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--preset", "grigorchuk", "--length", "10", "--out"),
        ("complexity", "--preset", "grigorchuk", "--max-len", "3", "--csv"),
        ("debruijn", "--preset", "grigorchuk", "-L", "2", "--dot"),
        ("debruijn", "--preset", "grigorchuk", "-L", "2", "--json"),
        ("spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1", "--size", "4",
         "--csv"),
    ], ids=["out", "csv", "dot", "json", "spectrum-csv"])
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
         "--energies:"),
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
    ], ids=["complexity", "palindrome", "repetitivity", "alpha-horizon",
            "bosh-negative-horizon", "bosh-zero-horizon", "bosh-negative-prefix",
            "bosh-negative-eta", "zero-budget", "negative-budget"])
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv, flag):
        command, *rest = argv
        code, out, err = run(capsys, command, "--preset", "liuqu", *rest)
        assert code == 2 and out == "" and flag in err

    def test_short_eta_prefix_is_three(self, capsys):
        code, out, err = run(capsys, "bosh", "--preset", "grigorchuk",
                             "--eta", "2", "--prefix", "5")
        assert code == 3 and out == "" and "got 5" in err

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

    def test_bosh_has_no_json_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bosh", "--preset", "grigorchuk", "--json"])
        assert exc.value.code == 2


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
# jumps and the eta estimate: their bytes are part of the CLI's contract
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
]


@pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in STDOUT_DIGESTS])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestImports:
    def test_package_exports_resolve(self):
        import toeplitz

        assert [n for n in toeplitz.__all__ if not hasattr(toeplitz, n)] == []
        namespace: dict = {}
        exec("from toeplitz import *", namespace)
        assert set(toeplitz.__all__) <= namespace.keys()

    def test_only_spectrum_imports_numpy(self):
        commands = [
            ["presets"],
            ["gen", "--preset", "grigorchuk", "--length", "16"],
            ["language", "--preset", "grigorchuk", "-L", "3"],
            ["complexity", "--preset", "grigorchuk", "--max-len", "8", "--check"],
            ["palindrome", "--preset", "grigorchuk", "--max-len", "8", "--check"],
            ["debruijn", "--preset", "grigorchuk", "-L", "3"],
            ["repetitivity", "--preset", "grigorchuk", "--alpha", "1"],
            ["bosh", "--preset", "grigorchuk", "--eta", "2", "--prefix", "64"],
            ["spectrum", "--preset", "grigorchuk", "--energies=-3:6:5",
             "--lyapunov", "64"],
            ["spectrum", "--preset", "grigorchuk", "--size", "4"],
        ]
        proc = run_fresh(
            "import json, sys\n"
            "from toeplitz.cli import main\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = main(argv)\n"
            "    seen.append([argv[0], code, 'numpy' in sys.modules,\n"
            "                 'scipy' in sys.modules])\n"
            "print(json.dumps(seen), file=sys.stderr)\n",
            json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stderr.splitlines()[-1])
        assert seen == [[argv[0], 0, argv[0] == "spectrum", False]
                        for argv in commands]
