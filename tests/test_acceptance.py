"""Acceptance criteria: one test per criterion, one pass/fail line each.

Every tolerance and time bound is pinned here; nothing is deferred.  The
randomized battery is seeded, so runs are reproducible byte for byte.
"""

import math
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

from conftest import child_env
from oracles import (
    band_lengths,
    cover_length,
    is_strongly_connected,
    m_sequence,
    reflection_check,
)

from toeplitz.boshernitzan import bosh_verdict
from toeplitz.coding import eventual_alphabet, kappa, scaled_length
from toeplitz.complexity import complexity_formula, growth_formula
from toeplitz.debruijn import (
    build_graph,
    contracted_arcs,
    palindrome_formula,
    predicted_arcs,
    right_special_report,
)
from toeplitz.language import factor_counts, language, palindrome_counts
from toeplitz.repetitivity import (
    alpha_verdict,
    repetitivity_formula,
    repetitivity_oracle,
)
from toeplitz.spectral import (
    CoefficientMap,
    TransferMatrix,
    finite_section_spectrum,
    step_matrix,
    transfer_cocycle,
)
from toeplitz.verdicts import Status
from toeplitz.words import block_length, word_prefix


class Timer:
    def __init__(self, number: int, label: str, limit: float):
        self.number, self.label, self.limit = number, label, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.number} took {elapsed:.1f}s (limit {self.limit}s)"
            print(f"PASS criterion {self.number}: {self.label} "
                  f"[{elapsed:.2f}s < {self.limit:.0f}s]")
        else:
            print(f"FAIL criterion {self.number}: {self.label}")
        return False


def test_criterion_1_grigorchuk_complexity_golden(grig):
    with Timer(1, "Grigorchuk complexity golden values, L = 0..33", 5.0):
        for L in range(34):
            formula = complexity_formula(grig, L)
            assert formula == len(language(grig, L)), L
            if L == 0:
                want = 1
            elif L <= 1:
                want = 3 * L + 1
            elif L == 2:
                want = 3 * L
            elif L <= 4:
                want = 2 * L + 2
            else:
                k = 2
                while L > 2 ** (k + 1):
                    k += 1
                if L <= 2 ** (k + 1) - 2 ** (k - 1):
                    want = 3 * L - 2 ** k + 2 ** (k - 1)
                else:
                    want = 2 * L + 2 ** k
            assert formula == want, L
        assert [complexity_formula(grig, L) for L in (1, 2, 3, 4)] == [4, 6, 8, 10]


def test_criterion_2_randomized_formula_battery(battery):
    assert len(battery) >= 50
    with Timer(2, f"formula vs oracle on {len(battery)} random codings", 120.0):
        for c in battery:
            running = 1
            for L in range(block_length(c, 3) + 2):
                lang = language(c, L)
                assert complexity_formula(c, L) == len(lang), (c.spec_string(), L)
                assert complexity_formula(c, L) == running, (c.spec_string(), L)
                running += growth_formula(c, L)
                if L >= 1:
                    pal = sum(1 for w in lang if w == w[::-1])
                    assert palindrome_formula(c, L) == pal, (c.spec_string(), L)
            longest = block_length(c, 5) + 1
            factors = factor_counts(c, longest)
            palindromes = palindrome_counts(c, longest)
            for L in range(longest + 1):
                assert complexity_formula(c, L) == factors[L], (c.spec_string(), L)
                if L < longest:
                    assert growth_formula(c, L) == factors[L + 1] - factors[L], \
                        (c.spec_string(), L)
                if L >= 1:
                    assert palindrome_formula(c, L) == palindromes[L], \
                        (c.spec_string(), L)


def test_criterion_3_debruijn_structure(battery):
    with Timer(3, "de Bruijn structure over the battery", 120.0):
        for c in battery:
            for L in range(1, block_length(c, 2) + 2):
                graph = build_graph(c, L)
                assert len(graph.vertices) == complexity_formula(c, L)
                assert len(graph.edges) == complexity_formula(c, L + 1)
                assert is_strongly_connected(graph)
                assert reflection_check(graph)
                degree_slack = sum(
                    d - 1 for d in right_special_report(graph).values()
                )
                assert degree_slack == growth_formula(c, L)
                fixed = [v for v in graph.vertices if v == v[::-1]]
                assert len(fixed) == palindrome_formula(c, L)
                assert contracted_arcs(graph) == predicted_arcs(c, L)


def test_criterion_4_repetitivity(grig, battery):
    with Timer(4, "repetitivity formula vs one-slide gap oracle, bands 1-3",
               300.0):
        for L in range(3, 17):
            want = repetitivity_formula(grig, L)
            assert repetitivity_oracle(grig, L) == want, L
        assert repetitivity_formula(grig, 3) == 32
        assert repetitivity_formula(grig, 4) == 33

        tested = 0
        for c in battery:
            if scaled_length(c, kappa(c, m_sequence(c, 2))) > 20000:
                continue
            for i in (1, 2, 3):
                for L in band_lengths(c, i):
                    want = repetitivity_formula(c, L)
                    got = repetitivity_oracle(c, L)
                    assert got == want, (c.spec_string(), i, L)
            tested += 1
            if tested >= 12:
                break
        assert tested >= 10

        verdict = alpha_verdict(grig, 1)
        assert verdict.status is Status.SATISFIED
        assert set(verdict.kappa_gaps) == {3}


def test_criterion_5_boshernitzan(grig, battery, liu_qu):
    with Timer(5, "Boshernitzan verdicts and witnesses", 60.0):
        assert bosh_verdict(grig).status is Status.SATISFIED
        for c in battery:
            bv = bosh_verdict(c)
            assert bv.status is Status.SATISFIED, c.spec_string()
            start, cycle = bv.period
            witness = bv.witness
            assert len(witness) >= start + cycle
            for i in range(start, len(witness) - cycle + 1):
                assert witness[i - 1] == witness[i - 1 + cycle], c.spec_string()
            if len(eventual_alphabet(c)) == 3:
                assert bv.liminf_criterion is bv.status
        lq = bosh_verdict(liu_qu, horizon=8)
        products = bosh_verdict(liu_qu, 8).witness[:8]
        assert lq.status is Status.INCONCLUSIVE
        assert all(b > a for a, b in zip(products, products[1:]))


def test_criterion_6_spectral_properties(grig):
    with Timer(6, "cocycle laws, free spectrum, interlacing, cover trend", 120.0):
        coeff = CoefficientMap.from_names(
            grig.alphabet, q={"a": 0, "x": 1, "y": 2, "z": 3}
        )
        word = word_prefix(grig, 200)
        rng = random.Random(3)
        for _ in range(5):
            n, m = rng.randint(1, 50), rng.randint(1, 50)
            energy = rng.uniform(-1.0, 1.0)
            full = transfer_cocycle(grig, coeff, energy, n + m)
            right = transfer_cocycle(grig, coeff, energy, m)
            shifted = TransferMatrix.identity()
            for k in range(m, m + n):
                shifted = step_matrix(coeff, energy,
                                      word[k + 1], word[k + 2]) @ shifted
            combined = shifted @ right
            for field in "abcd":
                a, b = getattr(full, field), getattr(combined, field)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

        assert abs(transfer_cocycle(grig, coeff, 0.0, 512).det() - 1.0) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            free = CoefficientMap(grig.alphabet, (1,) * 4, (0,) * 4)
            assert abs(transfer_cocycle(grig, free, 0.7, 4096).det() - 1.0) \
                <= 1e-12

            n = 64
            approx = finite_section_spectrum(grig, free, n)
            want = sorted(
                2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)
            )
            assert max(
                abs(a - b) for a, b in zip(approx, want)
            ) <= 1e-10

        for size in (8, 15):
            small = finite_section_spectrum(grig, coeff, size)
            large = finite_section_spectrum(grig, coeff, size + 1)
            for j in range(size):
                assert large[j] <= small[j] + 1e-10
                assert small[j] <= large[j + 1] + 1e-10

        cover_small = cover_length(
            finite_section_spectrum(grig, coeff, 256), 0.05)
        cover_large = cover_length(
            finite_section_spectrum(grig, coeff, 512), 0.05)
        assert cover_large <= cover_small + 0.1


DETERMINISM_COMMANDS = [
    ["gen", "--preset", "grigorchuk", "--length", "512", "--out", "{d}/gen.txt"],
    ["language", "--preset", "grigorchuk", "-L", "4", "--json",
     "--out", "{d}/lang.json"],
    ["complexity", "--preset", "grigorchuk", "--max-len", "20", "--check",
     "--csv", "{d}/comp.csv"],
    ["palindrome", "--preset", "grigorchuk", "--max-len", "12", "--check",
     "--csv", "{d}/pal.csv"],
    ["debruijn", "--preset", "grigorchuk", "-L", "3", "--dot", "{d}/g.dot",
     "--json", "{d}/g.json"],
    ["repetitivity", "--preset", "grigorchuk", "--max-len", "6", "--alpha",
     "1", "--csv", "{d}/rep.csv"],
    ["bosh", "--preset", "liuqu", "--horizon", "8", "--out", "{d}/bosh.json"],
    ["bosh", "--preset", "grigorchuk", "--horizon", "6", "--eta", "2",
     "--prefix", "2048", "--out", "{d}/eta.json"],
    ["spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
     "--size", "64", "--csv", "{d}/spec.csv"],
    ["spectrum", "--preset", "grigorchuk", "--q", "a=0,x=1,y=2,z=3",
     "--energies", "6:8:5", "--lyapunov", "512", "--csv", "{d}/lyap.csv"],
    ["presets"],
]


def _run_cli(command, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    argv = [arg.format(d=directory) for arg in command]
    proc = subprocess.run(
        [sys.executable, "-m", "toeplitz", *argv],
        capture_output=True, check=False, env=child_env(),
    )
    assert proc.returncode == 0, (argv, proc.stderr.decode())
    files = {
        p.name: p.read_bytes() for p in sorted(directory.iterdir())
    }
    return proc.stdout, files


def test_criterion_7_cli_determinism(tmp_path):
    with Timer(7, "byte-identical CLI runs across --jobs 1 and --jobs 8", 300.0):
        for idx, command in enumerate(DETERMINISM_COMMANDS):
            outputs = []
            for jobs in ("1", "8"):
                extra = [] if command[0] == "presets" else ["--jobs", jobs]
                for attempt in ("a", "b"):
                    directory = tmp_path / f"{idx}-{jobs}-{attempt}"
                    outputs.append(_run_cli(command + extra, directory))
            first_stdout, first_files = outputs[0]
            for stdout, files in outputs[1:]:
                assert stdout == first_stdout, command
                assert files == first_files, command
