"""Command-line front door wiring every module together.

Exit codes: 0 success, 1 formula/oracle mismatch, 2 usage error (an output
path that cannot be written among them), 3 budget or horizon exhaustion,
70 for a crash, which prints its traceback, and 120 when stdout cannot be
written.  Every command, and argparse's help, hands `_write` its output as
lines, tables as they are made.
All outputs are deterministic: words are sorted, JSON keys are sorted and
floats use repr.  Every scan runs serially; the worker-count flag is
accepted for compatibility and has no effect.

A launch whose first argument names a subcommand builds only that
subcommand's parser.  `--help`, no arguments, an unknown name or an option
before the subcommand build all nine, and the usage and error text are the
same either way.  argparse still looks its messages up through `gettext`,
which imports `locale`.  Each handler imports the modules it runs, so a
launch loads `cli`, `errors`, `presets` and `coding`, and per path only:

- `presets`: nothing more;
- `gen`: `words`; `language`: `words` and `language`, with `--json` `json`;
- `complexity` and `palindrome`: `words`, `language` and their formula
  module (`complexity`, `debruijn`); `debruijn`: the same and `json`, which
  `--dot` alone skips;
- `repetitivity --max-len`: `words`, `language` and `repetitivity`;
  `--alpha`: `repetitivity`, `verdicts`, `fractions` and `json`;
- `bosh`: `boshernitzan`, `verdicts` and `json`; `--eta` adds `words`,
  `language` and `fractions`;
- `spectrum`: `words` and `spectral`.  `--energies` imports neither numpy,
  `ctypes` nor `fractions`; `--size` imports `ctypes` to call LAPACK's
  `dstev` from numpy's wheel, and numpy only where that wheel bundles no
  `dstev`.

Every record is a named tuple, not a dataclass, so no subcommand imports
`dataclasses` or `inspect` (numpy's own start-up does).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import warnings
from itertools import chain, islice
from typing import Iterable, Optional, Sequence

from .coding import Coding
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    HorizonExceeded,
    PrefixTooShort,
    ToeplitzError,
    TooManyDigits,
    charge,
)
from .presets import PRESET_NAMES, parse_coding_spec, preset

CHECK_MISMATCH = 1
USAGE_ERROR = 2
RESOURCE_ERROR = 3
SOFTWARE_ERROR = 70  # EX_SOFTWARE: a crash, neither bad input nor a mismatch
STDOUT_CLOSED = 120  # the status of a failed flush at interpreter exit


def _resolve(args: argparse.Namespace) -> Coding:
    sources = [s for s in (args.coding, args.preset) if s]
    if len(sources) != 1:
        raise ValueError("--coding/--preset: exactly one coding source required")
    try:
        periods = tuple(int(x) for x in args.periods.split(","))
    except ValueError:
        raise ValueError(
            f"--periods: expected comma-separated integers, got {args.periods!r}"
        ) from None
    if not periods or any(p < 2 for p in periods):
        raise ValueError("--periods: every period must be >= 2")
    if args.coding:
        coding = parse_coding_spec(args.coding, periods)
    else:
        coding = preset(args.preset, periods)
    if args.budget <= 0:
        raise ValueError("--budget: must be positive")
    if args.jobs <= 0:
        raise ValueError("--jobs: must be positive")
    if getattr(args, "max_len", 0) < 0:
        raise ValueError("--max-len: must be >= 0")
    if getattr(args, "horizon", 1) < 1:
        raise ValueError("--horizon: must be >= 1")
    return coding


class _StdoutFailed(Exception):
    """stdout could not be written; the message says why."""


def _write(path: Optional[str], lines: Iterable[str]) -> None:
    """Write each line and a newline to `path` (stdout for None or `-`),
    4096 lines a `write` call: never the whole text at once, nor one system
    call per line on an unbuffered stdout.

    The output is flushed after the last chunk, so a failure surfaces here:
    on stdout as `_StdoutFailed`, on a path (opening, writing or closing
    it) as a ValueError that names it, with the file closed either way.
    """
    lines = iter(lines)
    chunks = iter(lambda: list(islice(lines, 4096)), [])
    to_stdout = path in (None, "-")
    try:
        with (contextlib.nullcontext(sys.stdout) if to_stdout
              else open(path, "w", encoding="utf-8")) as out:
            for chunk in chunks:
                out.write("\n".join(chunk) + "\n")
            out.flush()
    except OSError as exc:
        if not to_stdout:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None
        raise _StdoutFailed(
            "stdout closed" if isinstance(exc, BrokenPipeError)
            else f"cannot write stdout: {exc.strerror}") from None


def _emit_json(payload, path: Optional[str]) -> None:
    import json

    _write(path, json.dumps(payload, sort_keys=True, indent=2).splitlines())


def _cmd_gen(c: Coding, args) -> int:
    from .words import word_prefix

    prefix = word_prefix(c, args.length, args.budget)
    _write(args.out, [c.alphabet.render(prefix)])
    return 0


def _cmd_language(c: Coding, args) -> int:
    from .language import language

    lang = language(c, args.length, args.budget)
    rendered = [c.alphabet.render(w) for w in lang]
    if args.json:
        _emit_json({"L": args.length, "count": len(rendered), "words": rendered},
                   args.out)
    else:
        _write(args.out, rendered)
    return 0


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def _formula_vs_oracle(args, rows, width: int = 3) -> int:
    """Write the table, the first `width` fields of each `words.Row` under
    their names (`length` as L), as the rows come; then report every row
    whose formula and oracle differ."""
    from .words import Row

    bad = []

    def lines():
        yield ",".join(("L", *Row._fields[1:width]))
        for r in rows:
            if None not in (r.formula, r.oracle) and r.oracle != r.formula:
                bad.append(r)
            yield ",".join(map(_csv_cell, r[:width]))

    _write(args.csv, lines())
    for r in bad:
        print(f"mismatch at L={r.length}: formula {r.formula} != "
              f"oracle {r.oracle}", file=sys.stderr)
    return CHECK_MISMATCH if bad else 0


def _cmd_complexity(c: Coding, args) -> int:
    from . import complexity

    rows = complexity.profile(c, args.max_len, args.check, args.budget)
    return _formula_vs_oracle(args, rows, 4)


def _cmd_palindrome(c: Coding, args) -> int:
    from . import debruijn

    rows = debruijn.palindrome_profile(c, args.max_len, args.check, args.budget)
    return _formula_vs_oracle(args, rows)


def _graph_payload(graph) -> dict:
    """A `debruijn.DeBruijnGraph` as JSON-ready data."""
    from .debruijn import right_special_report

    render = graph.alphabet.render
    ann = graph.annotations
    return {
        "L": graph.length,
        "vertices": [render(v) for v in graph.vertices],
        "edges": [[render(u), render(v), render(w)] for u, v, w in graph.edges],
        "annotations": {
            "level": ann.level,
            "u1": render(ann.u1),
            "v1": render(ann.v1),
            "u2": None if ann.u2 is None else render(ann.u2),
            "v2": None if ann.v2 is None else render(ann.v2),
            "right_special": [
                {"vertex": render(v), "out_degree": degree}
                for v, degree in right_special_report(graph).items()
            ],
        },
    }


def _cmd_debruijn(c: Coding, args) -> int:
    from . import debruijn

    graph = debruijn.build_graph(c, args.length, args.budget)
    if args.dot:
        _write(args.dot, debruijn.to_dot(graph).splitlines())
    if args.json_out or not args.dot:
        _emit_json(_graph_payload(graph), args.json_out or None)
    return 0


def _charge_horizon(args) -> None:
    """One budget unit per kappa jump of a verdict, before the walk."""
    charge(args.horizon, args.budget,
           f"--horizon: a horizon of {args.horizon} kappa jumps")


def _verdict_payload(v) -> dict:
    """A `verdicts.Verdict` as JSON-ready data, checked against the
    interpreter's limit on the digits of an integer it prints, if any."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(v.witness, default=0) >= 10 ** limit:
        raise TooManyDigits(f"a witness has more than {limit} digits, the "
                            "interpreter's limit for printing an integer")
    return {
        "verdict": v.status.value,
        "kind": v.kind,
        "witness": list(v.witness),
        "period": None if v.period is None else list(v.period),
        "trend": v.trend,
    }


def _cmd_repetitivity(c: Coding, args) -> int:
    from . import repetitivity

    if not args.max_len and args.alpha is None:
        raise ValueError("--max-len: required unless --alpha is given")
    if args.alpha is not None:
        from fractions import Fraction

        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"--alpha: expected a rational number, got {args.alpha!r}"
            ) from None
        if alpha < 1:
            raise ValueError("--alpha: alpha-repetitivity is defined for "
                             f"alpha >= 1, got {args.alpha!r}")
        _charge_horizon(args)
    code = 0
    if args.max_len:
        code = _formula_vs_oracle(
            args, repetitivity.report(c, args.max_len, args.budget))
    if args.alpha is not None:
        av = repetitivity.alpha_verdict(c, alpha, args.horizon)
        payload = _verdict_payload(av)
        payload["alpha"] = str(av.alpha)
        payload["kappa_gaps"] = list(av.kappa_gaps)
        payload["log_ratios"] = [repr(x) for x in av.log_ratios]
        _emit_json(payload, None)
    return code


def _cmd_bosh(c: Coding, args) -> int:
    from . import boshernitzan

    for flag, value in (("--eta", args.eta), ("--prefix", args.prefix)):
        if value is not None and value < 0:
            raise ValueError(f"{flag}: must be >= 0")
    if (args.eta is None) != (args.prefix is None):
        raise ValueError("--eta: requires --prefix M" if args.prefix is None
                         else "--prefix: requires --eta L")
    _charge_horizon(args)
    bv = boshernitzan.bosh_verdict(c, args.horizon)
    payload = _verdict_payload(bv)
    payload["liminf_criterion"] = (
        None if bv.liminf_criterion is None else bv.liminf_criterion.value
    )
    if args.eta is not None:
        eta = boshernitzan.estimate_eta(c, args.eta, args.prefix, args.budget)
        payload["eta"] = {
            "L": eta.length,
            "min_frequency": str(eta.min_frequency),
            "prefix": eta.prefix_length,
            "rarest": c.alphabet.render(eta.rarest or b""),
        }
    _emit_json(payload, args.out)
    return 0


def _parse_coeff(c: Coding, spec: str, flag: str,
                 default: float) -> dict[str, float]:
    """Letter name -> value from a --p or --q map."""
    values = dict.fromkeys(c.alphabet.names, default)
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"{flag}: bad assignment {item!r}")
        name, raw = item.split("=", 1)
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{flag}: {name} must be a number, "
                             f"got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{flag}: {name} must be finite, got {raw!r}")
        if name == "const":
            values = dict.fromkeys(values, value)
        elif name in values:
            values[name] = value
        else:
            raise ValueError(f"{flag}: unknown letter {name!r} in {item!r}")
    return values


def _cmd_spectrum(c: Coding, args) -> int:
    from . import spectral

    if args.lyapunov is not None and not args.energies:
        raise ValueError("--lyapunov: requires --energies lo:hi:steps")
    if args.size is not None and args.energies:
        raise ValueError("--size: not used with --energies")
    coeff = spectral.CoefficientMap.from_names(
        c.alphabet, q=_parse_coeff(c, args.q, "--q", 0.0),
        p=_parse_coeff(c, args.p, "--p", 1.0))
    if args.energies:
        try:
            lo, hi, steps = args.energies.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise ValueError(
                f"--energies: expected lo:hi:steps, got {args.energies!r}"
            ) from None
        bad = ValueError("--energies: need steps >= 1 and finite "
                         f"energies, got {args.energies!r}")
        if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise bad
        charge(steps, args.budget, f"--energies: a grid of {steps} energies")
        grid = spectral.energy_grid(lo, hi, steps)
        if not all(map(math.isfinite, grid)):
            raise bad
        n = 4096 if args.lyapunov is None else args.lyapunov
        try:
            values = spectral.lyapunov_over_grid(c, coeff, grid, n, args.budget)
        except OverflowError:
            raise ValueError(
                "--energies: the cocycle overflows a float at these energies "
                "and --p/--q coefficients; use smaller energies or other "
                "--p/--q values"
            ) from None
        _write(args.csv, chain(["E,lyapunov"], (
            f"{E!r},{value!r}" for E, value in zip(grid, values))))
        return 0
    size = 256 if args.size is None else args.size
    eigenvalues = spectral.finite_section_spectrum(c, coeff, size, args.budget)
    _write(args.csv, chain(["j,eigenvalue"], (
        f"{j},{ev!r}" for j, ev in enumerate(eigenvalues))))
    return 0


def _cmd_presets(_c, _args) -> int:
    _write(None, PRESET_NAMES)
    return 0


def _option(*flags: str, **kwargs) -> tuple:
    """One `add_argument` call, kept for a subparser built on demand."""
    return flags, kwargs


_COMMON = (
    _option("--coding", help="coding spec, e.g. 'a:2 | x:2 y:2 z:2'"),
    _option("--preset", help="preset name, e.g. grigorchuk"),
    _option("--periods", default="2",
            help="cyclic period pattern for generator tails "
                 "(comma separated)"),
    _option("--budget", type=int, default=DEFAULT_BUDGET,
            help="symbol budget for materialized words, "
                 "the states of the --check oracles, "
                 "finite-section matrix entries, the "
                 "energies of a spectrum --energies grid and "
                 "the kappa jumps of a --horizon"),
    _option("--jobs", type=int, default=1,
            help="accepted for compatibility; has no effect"),
)
_LENGTH = _option("-L", "--length", type=int, required=True)
_MAX_LEN = _option("--max-len", type=int, required=True)
_HORIZON = _option("--horizon", type=int, default=12)

# name -> (handler, help, options), in the order `toeplitz --help`
# lists them
_SUBCOMMANDS = {
    "gen": (_cmd_gen, "emit a prefix of the limit word", (
        *_COMMON,
        _option("--length", type=int, required=True),
        _option("--out"),
    )),
    "language": (_cmd_language, "list all factors of one length", (
        *_COMMON, _LENGTH,
        _option("--json", action="store_true"),
        _option("--out"),
    )),
    "complexity": (_cmd_complexity, "complexity table, optionally checked", (
        *_COMMON, _MAX_LEN,
        _option("--check", action="store_true",
                help="compute the oracle and fail on mismatch"),
        _option("--csv"),
    )),
    "palindrome": (_cmd_palindrome, "palindrome complexity table", (
        *_COMMON, _MAX_LEN,
        _option("--check", action="store_true"),
        _option("--csv"),
    )),
    "debruijn": (_cmd_debruijn, "de Bruijn graph at one length", (
        *_COMMON, _LENGTH,
        _option("--dot"),
        _option("--json", dest="json_out",
                help="write the graph as JSON to this path"),
    )),
    "repetitivity": (_cmd_repetitivity, "repetitivity table and verdicts", (
        *_COMMON,
        _option("--max-len", type=int, default=0),
        _option("--alpha", help="also emit the alpha-repetitivity verdict"),
        _HORIZON,
        _option("--csv"),
    )),
    "bosh": (_cmd_bosh, "Boshernitzan condition verdict", (
        *_COMMON, _HORIZON,
        _option("--eta", type=int,
                help="also estimate eta at this word length"),
        _option("--prefix", type=int,
                help="prefix length for the eta estimate"),
        _option("--out"),
    )),
    "spectrum": (_cmd_spectrum, "finite sections and Lyapunov scans", (
        *_COMMON,
        _option("--q", default="const=0", help="diagonal map, e.g. a=0,x=1"),
        _option("--p", default="const=1", help="off-diagonal map"),
        _option("--size", type=int,
                help="finite-section size (default 256); not with --energies"),
        _option("--energies", help="lo:hi:steps grid"),
        _option("--lyapunov", type=int, help="cocycle steps per energy"),
        _option("--csv"),
    )),
    "presets": (_cmd_presets, "list the preset registry", ()),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose help, its one output to stdout, goes through `_write`,
    so that a failure to write it ends as a command's output does; its
    subparsers are of this class too."""

    def print_help(self, file=None) -> None:
        if file is None:
            _write(None, self.format_help().splitlines())
        else:
            super().print_help(file)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `toeplitz` parser, with every subparser, or only `command`'s.

    A parser built for one subcommand lists all of them in its usage line,
    so its usage and error text match the full parser's for any argv that
    starts with that subcommand's name.
    """
    parser = _Parser(
        prog="toeplitz",
        description="simple Toeplitz subshifts: words, complexity, graphs, "
                    "repetitivity, Boshernitzan checks and Jacobi spectra",
    )
    # argparse names the action by its metavar in errors, where the full
    # parser says `command`; only a one-subcommand parser needs it
    metavar = None if command is None else "{%s}" % ",".join(_SUBCOMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        _, help_text, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    # the prefix of every stderr line; `toeplitz` alone until parsed
    name = " ".join(filter(None, ("toeplitz", command)))
    try:
        args = build_parser(command).parse_args(argv)
        name = f"toeplitz {args.command}"
        handler, _, _ = _SUBCOMMANDS[args.command]
        with warnings.catch_warnings():
            # one line naming the command, not a source location
            warnings.showwarning = lambda message, *_, **__: print(
                f"{name}: warning: {message}", file=sys.stderr)
            return handler(
                None if args.command == "presets" else _resolve(args), args)
    except _StdoutFailed as exc:
        # what is still buffered, and the flush at interpreter exit, go to
        # the null device instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"{name}: {exc}", file=sys.stderr)
        return STDOUT_CLOSED
    except (BudgetExceeded, HorizonExceeded, PrefixTooShort,
            TooManyDigits) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (ToeplitzError, ValueError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        import traceback

        traceback.print_exc()
        return SOFTWARE_ERROR
