"""Seeded workloads for the CLI benchmark and the checks on their outputs.

A workload is a list of ``toeplitz`` invocations built from a seed: the same
seed always gives the same argv.  The seed changes letter names, coefficient
assignments and random codings, never the amount of work the heavy
invocations do, so wall time stays comparable from seed to seed.

Every invocation carries a check that reads its stdout and output files and
raises ``BadOutput`` on anything wrong.  The checks hold for every seed; the
byte-exact digests recorded in ``digests.json`` cover ``DEFAULT_SEED`` only.

Why each workload exists is in README.md and in each builder's docstring.
"""

from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0


class BadOutput(Exception):
    """An invocation's output failed its check."""


Check = Callable[[bytes, dict], None]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``label`` keys the recorded digests, ``files`` are the
    output files it writes into the working directory."""

    label: str
    argv: tuple[str, ...]
    check: Check
    files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]


# -- an independent reference for the limit word ---------------------------

@dataclass(frozen=True)
class Spec:
    """A periodic coding as (letter, period) lists, with its CLI spec string."""

    pre: tuple[tuple[str, int], ...]
    tail: tuple[tuple[str, int], ...]

    def entry(self, k: int) -> tuple[str, int]:
        if k < len(self.pre):
            return self.pre[k]
        return self.tail[(k - len(self.pre)) % len(self.tail)]

    def text(self) -> str:
        def fmt(entries):
            return " ".join(f"{a}:{n}" for a, n in entries)
        return f"{fmt(self.pre)} | {fmt(self.tail)}".strip()

    def prefix(self, length: int) -> str:
        """First `length` letters of the limit word, straight from
        p(k+1) = (p(k) a_{k+1})^{n_{k+1}-1} p(k)."""
        a, n = self.entry(0)
        block, k = a * (n - 1), 0
        while len(block) < length:
            k += 1
            a, n = self.entry(k)
            block = (block + a) * (n - 1) + block
        return block[:length]


def grigorchuk_spec(names: str) -> Spec:
    a, x, y, z = names
    return Spec(((a, 2),), ((x, 2), (y, 2), (z, 2)))


def random_periodic_spec(rng: random.Random) -> Spec:
    """Valid-by-construction coding drawn like the test suite's battery:
    alphabet 2-5, periods in {2, 3, 4}, preperiod <= 3, tail <= 4."""
    size = rng.randint(2, 5)
    names = "abcde"[:size]
    # a 2-letter alphabet admits no odd cyclically-distinct tail
    tail_len = rng.choice([2, 4]) if size == 2 else rng.randint(2, 4)
    while True:
        ids = [rng.randrange(size) for _ in range(tail_len)]
        if all(ids[i] != ids[(i + 1) % tail_len] for i in range(tail_len)):
            break
    pre_len = rng.randint(0, 3)
    pre_ids: list[int] = []
    follower = ids[0]
    for _ in range(pre_len):  # built backwards so every junction stays distinct
        follower = rng.choice([l for l in range(size) if l != follower])
        pre_ids.append(follower)
    pre_ids.reverse()
    periods = [rng.choice([2, 3, 4]) for _ in range(pre_len + tail_len)]
    return Spec(
        tuple((names[l], n) for l, n in zip(pre_ids, periods[:pre_len])),
        tuple((names[l], n) for l, n in zip(ids, periods[pre_len:])),
    )


# -- output checks ----------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BadOutput(message)


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise BadOutput("output is not UTF-8") from None


def _csv(raw: bytes, header: str) -> list[list[str]]:
    lines = _text(raw).split("\n")
    _require(lines[-1] == "", "output does not end in a newline")
    _require(lines[0] == header, f"header {lines[0]!r} != {header!r}")
    return [line.split(",") for line in lines[1:-1]]


def _int(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise BadOutput(f"not an integer: {cell!r}") from None


def _float(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise BadOutput(f"not a number: {cell!r}") from None
    _require(math.isfinite(value), f"not finite: {cell!r}")
    return value


def _json(raw: bytes):
    try:
        return json.loads(_text(raw))
    except json.JSONDecodeError as exc:
        raise BadOutput(f"bad JSON: {exc}") from None


def _file(files: dict, name: str) -> bytes:
    _require(files.get(name) is not None, f"output file {name} missing")
    return files[name]


def check_complexity(max_len: int, csv_file: str | None = None) -> Check:
    """Formula equals oracle on every row, and the growth column equals the
    oracle's successive differences."""
    def check(stdout: bytes, files: dict) -> None:
        raw = stdout if csv_file is None else _file(files, csv_file)
        rows = _csv(raw, "L,formula,oracle,growth")
        _require(len(rows) == max_len + 1, f"{len(rows)} rows, want {max_len + 1}")
        counts = []
        for L, row in enumerate(rows):
            _require(len(row) == 4 and _int(row[0]) == L, f"bad row {row}")
            formula, oracle = _int(row[1]), _int(row[2])
            _require(formula == oracle, f"L={L}: formula {formula} != oracle {oracle}")
            counts.append((oracle, _int(row[3])))
        for L in range(max_len):
            _require(counts[L + 1][0] - counts[L][0] == counts[L][1],
                     f"L={L}: growth {counts[L][1]} != p(L+1) - p(L)")
    return check


def check_palindrome(max_len: int) -> Check:
    def check(stdout: bytes, _files: dict) -> None:
        rows = _csv(stdout, "L,formula,oracle")
        _require(len(rows) == max_len, f"{len(rows)} rows, want {max_len}")
        for L, row in enumerate(rows, start=1):
            _require(len(row) == 3 and _int(row[0]) == L, f"bad row {row}")
            _require(_int(row[1]) == _int(row[2]),
                     f"L={L}: formula {row[1]} != oracle {row[2]}")
    return check


def check_repetitivity_table(max_len: int) -> Check:
    """The CLI prints this table without comparing, so compare here."""
    def check(stdout: bytes, _files: dict) -> None:
        rows = _csv(stdout, "L,formula,oracle")
        _require(len(rows) == max_len, f"{len(rows)} rows, want {max_len}")
        for L, row in enumerate(rows, start=1):
            _require(len(row) == 3 and _int(row[0]) == L, f"bad row {row}")
            oracle = _int(row[2])
            _require(oracle > L, f"L={L}: R(L) = {oracle} <= L")
            if row[1]:
                _require(_int(row[1]) == oracle,
                         f"L={L}: formula {row[1]} != oracle {oracle}")
    return check


def check_debruijn(length: int, json_file: str, word: str) -> Check:
    """Vertices are factors of the limit word; every edge joins the prefix
    and suffix of its label; every vertex has an in- and an out-edge."""
    def check(_stdout: bytes, files: dict) -> None:
        graph = _json(_file(files, json_file))
        _require(graph.get("L") == length, "wrong L")
        vertices = graph.get("vertices") or []
        _require(len(set(vertices)) == len(vertices), "duplicate vertices")
        vset = set(vertices)
        sources, targets = set(), set()
        for u, v, w in graph.get("edges") or []:
            _require(len(w) == length + 1 and w[:-1] == u and w[1:] == v,
                     f"bad edge {u} -> {v} labelled {w}")
            _require(u in vset and v in vset, f"edge {w} leaves the vertex set")
            sources.add(u)
            targets.add(v)
        _require(sources == vset == targets, "a vertex lacks an in- or out-edge")
        _require(all(v in word for v in vertices),
                 "a vertex is not a factor of the limit word")
        for rs in graph["annotations"]["right_special"]:
            _require(rs["out_degree"] >= 2, "right-special vertex of degree < 2")
    return check


def check_lyapunov(lo: float, hi: float, steps: int, csv_file: str) -> Check:
    def check(_stdout: bytes, files: dict) -> None:
        rows = _csv(_file(files, csv_file), "E,lyapunov")
        _require(len(rows) == steps, f"{len(rows)} rows, want {steps}")
        for i, row in enumerate(rows):
            want = lo + (hi - lo) * i / (steps - 1)
            _require(len(row) == 2 and abs(_float(row[0]) - want) < 1e-12,
                     f"row {i}: energy {row[0]} != {want!r}")
            # det = 1, so every cocycle norm is >= 1
            _require(_float(row[1]) >= -1e-9, f"row {i}: negative exponent")
    return check


def check_eigenvalues(size: int, q: dict, word: str) -> Check:
    """Sorted, inside the Gershgorin enclosure, and summing to the trace."""
    def check(stdout: bytes, _files: dict) -> None:
        rows = _csv(stdout, "j,eigenvalue")
        _require(len(rows) == size, f"{len(rows)} rows, want {size}")
        values = []
        for j, row in enumerate(rows):
            _require(len(row) == 2 and _int(row[0]) == j, f"bad row {row}")
            values.append(_float(row[1]))
        _require(values == sorted(values), "eigenvalues not ascending")
        lo, hi = min(q.values()) - 2, max(q.values()) + 2
        _require(lo - 1e-9 <= values[0] and values[-1] <= hi + 1e-9,
                 "eigenvalue outside the Gershgorin enclosure")
        trace = sum(q[letter] for letter in word[:size])
        _require(abs(sum(values) - trace) < 1e-8 * size,
                 f"eigenvalues sum to {sum(values)}, trace is {trace}")
    return check


def check_bosh(exact: bool, horizon: int, eta_length: int | None = None,
               word: str = "") -> Check:
    def check(stdout: bytes, _files: dict) -> None:
        payload = _json(stdout)
        witness = payload.get("witness") or []
        _require(all(isinstance(v, int) and v >= 1 for v in witness),
                 "witness products must be positive integers")
        if exact:
            _require(payload.get("kind") == "exact"
                     and payload.get("verdict") == "satisfied",
                     "periodic tails satisfy (B) exactly")
            start, cycle = payload["period"]
            _require(len(witness) >= max(horizon, start + cycle),
                     "witness shorter than horizon")
        else:
            _require(payload.get("kind") == "horizon-estimate"
                     and payload.get("verdict") != "violated"
                     and len(witness) == horizon,
                     "generator tails get horizon estimates only")
        if eta_length is not None:
            eta = payload.get("eta") or {}
            try:
                freq = Fraction(eta.get("min_frequency", ""))
            except ValueError:
                raise BadOutput("eta frequency is not a fraction") from None
            _require(eta.get("L") == eta_length and 0 < freq <= 1,
                     "eta frequency outside (0, 1]")
            _require(len(eta.get("rarest", "")) == eta_length
                     and eta["rarest"] in word,
                     "rarest word is not a factor of the limit word")
    return check


def check_alpha(stdout: bytes, _files: dict) -> None:
    payload = _json(stdout)
    _require(payload.get("alpha") == "1" and payload.get("kind") == "exact"
             and payload.get("verdict") == "satisfied",
             "periodic tails are linearly repetitive")
    _require(len(payload.get("witness") or []) == len(payload.get("kappa_gaps") or []),
             "witness and kappa gaps differ in length")


def check_gen(word: str) -> Check:
    def check(stdout: bytes, _files: dict) -> None:
        _require(_text(stdout) == word + "\n", "prefix differs from the reference word")
    return check


PRESETS_OUTPUT = b"grigorchuk\nl-grigorchuk(l1,l2,...)\nliuqu\n"


def check_presets(stdout: bytes, _files: dict) -> None:
    _require(stdout == PRESETS_OUTPUT, "preset listing changed")


SETUP_PROBE = Invocation("presets", ("presets",), check_presets)


# -- the workloads ---------------------------------------------------------

def oracle_sweep(seed: int) -> Workload:
    """Grigorchuk at large lengths.  ``language``, ``parallel`` and
    ``repetitivity`` do nearly all of the work and ``language``'s caches drive
    peak memory, so a one-pass oracle or the removal of the thread pool shows
    here."""
    rng = random.Random(f"oracle-sweep/{seed}")
    # the paper's letter names for the default seed, four random ones otherwise
    names = "axyz" if seed == DEFAULT_SEED else "".join(
        rng.sample(string.ascii_lowercase, 4))
    spec = grigorchuk_spec(names)
    coding = ("--preset", "grigorchuk") if seed == DEFAULT_SEED \
        else ("--coding", spec.text())
    word = spec.prefix(4096)
    return Workload("oracle-sweep", (
        Invocation("complexity", ("complexity", *coding, "--check",
                                  "--max-len", "800", "--csv", "complexity.csv"),
                   check_complexity(800, "complexity.csv"), ("complexity.csv",)),
        Invocation("palindrome", ("palindrome", *coding, "--check",
                                  "--max-len", "400"),
                   check_palindrome(400)),
        Invocation("repetitivity", ("repetitivity", *coding, "--max-len", "32"),
                   check_repetitivity_table(32)),
        Invocation("debruijn", ("debruijn", *coding, "-L", "48",
                                "--json", "debruijn.json"),
                   check_debruijn(48, "debruijn.json", word), ("debruijn.json",)),
    ))


def spectral_scan(seed: int) -> Workload:
    """A Lyapunov scan over an energy grid and two dense finite sections.
    ``spectral`` does nearly all of the work and the language oracle sits
    idle, so a faster cocycle or eigensolver shows here and oracle changes
    should not."""
    rng = random.Random(f"spectral-scan/{seed}")
    names = "axyz"
    values = [0.0, 1.0, 2.0, 3.0]
    if seed != DEFAULT_SEED:
        rng.shuffle(values)
    q = dict(zip(names, values))
    qarg = ",".join(f"{a}={int(v)}" for a, v in q.items())
    ls = (1, 2) if seed == DEFAULT_SEED else (rng.randint(1, 3), rng.randint(1, 3))
    lgrig = Spec((("a", 2),), tuple(
        (a, 2 ** ls[j % 2]) for j, a in enumerate("xyz" * 2)))
    grig_word = grigorchuk_spec(names).prefix(2048)
    return Workload("spectral-scan", (
        Invocation("lyapunov", ("spectrum", "--preset", "grigorchuk",
                                "--q", qarg, "--energies=-3:6:121",
                                "--lyapunov", "4096", "--csv", "lyapunov.csv"),
                   check_lyapunov(-3.0, 6.0, 121, "lyapunov.csv"),
                   ("lyapunov.csv",)),
        Invocation("section-2048", ("spectrum", "--preset", "grigorchuk",
                                    "--q", qarg, "--size", "2048"),
                   check_eigenvalues(2048, q, grig_word)),
        Invocation("section-lgrig", ("spectrum", "--preset",
                                     f"l-grigorchuk({ls[0]},{ls[1]})",
                                     "--q", qarg, "--size", "1024"),
                   check_eigenvalues(1024, q, lgrig.prefix(1024))),
    ))


BATTERY_CODINGS = 6
BATTERY_MAX_LEN = 64
ETA_LENGTH = 4
ETA_PREFIX = 4096  # >= 10 (n_0 ... n_k) for L = 4 whenever every n_j <= 4


def cli_battery(seed: int) -> Workload:
    """Twenty short invocations.  Interpreter start-up and package import
    dominate, then ``coding`` hashing and caches and ``cli`` formatting.
    ``language`` builds many small sets here instead of a few huge ones, so
    an oracle with a higher constant cost loses here."""
    rng = random.Random(f"cli-battery/{seed}")
    specs = [random_periodic_spec(rng) for _ in range(BATTERY_CODINGS)]
    calls = []
    for i, spec in enumerate(specs):
        coding = ("--coding", spec.text())
        word = spec.prefix(ETA_PREFIX)
        calls += [
            Invocation(f"complexity-{i}", ("complexity", *coding, "--check",
                                           "--max-len", str(BATTERY_MAX_LEN)),
                       check_complexity(BATTERY_MAX_LEN)),
            Invocation(f"alpha-{i}", ("repetitivity", *coding, "--alpha", "1"),
                       check_alpha),
            Invocation(f"bosh-eta-{i}", ("bosh", *coding, "--eta", str(ETA_LENGTH),
                                         "--prefix", str(ETA_PREFIX)),
                       check_bosh(True, 12, ETA_LENGTH, word)),
        ]
    calls += [
        Invocation("bosh-liuqu", ("bosh", "--preset", "liuqu", "--horizon", "12"),
                   check_bosh(False, 12)),
        Invocation("gen", ("gen", "--coding", specs[0].text(), "--length", "4096"),
                   check_gen(specs[0].prefix(4096))),
    ]
    return Workload("cli-battery", tuple(calls))


BUILDERS = {
    "oracle-sweep": oracle_sweep,
    "spectral-scan": spectral_scan,
    "cli-battery": cli_battery,
}


def build(name: str, seed: int) -> Workload:
    if name not in BUILDERS:
        raise KeyError(f"unknown workload {name!r} (known: {', '.join(BUILDERS)})")
    return BUILDERS[name](seed)
